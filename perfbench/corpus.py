"""Seeded problem-file generator with independently known answers.

    python perfbench/corpus.py WORKLOAD SEED OUT_DIR

writes OUT_DIR/problem.jsf and OUT_DIR/expected.json (task id -> whether
the task's statement holds, and whether ``oracle.py`` has lines to check).

Each workload is a ``.jsf`` text plus the verdict every task must get.
The answers come from the construction and from sympy, never from
jetsym: a true statement must come back ``pass`` or ``probably-pass``,
a false one ``fail``.  Inputs are not filtered or reseeded, so a task
that hits a known jetsym defect stays in the corpus and is counted.

``prolong-pde``: two polynomial point fields on the 2x2 jet space
(independent x, t; dependent u, v), each prolonged to order 5 by the
standard lift and by the matrix mu lift with ``path-check = true``.  The
mu form is the Darboux derivative of a unipotent gauge, flat by
construction; one of them gets a ``check-compat`` and a ``darboux`` task.

``ode-sweep``: many small scalar-ODE tasks, each on its own equation:
lambda-symmetries of ``u_xx = a(x) u_x + b(x) u`` with
``b = lambda' + lambda^2 - a lambda`` (some rewritten through
``sin^2 = 1 - cos^2``), the matching standard checks, scaling symmetries
``u d/du`` of rational equations, and gauge-check, potential and
coincide tasks.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

import sympy as sp

PDE_ORDER = 5


@dataclass
class Corpus:
    text: str
    expected: dict  # task id -> True (statement holds) / False
    fields: dict = field(default_factory=dict)  # name -> (xi, phi) sympy tuples
    darboux: dict = field(default_factory=dict)  # task id -> {(i, row, col): sympy}
    independent: tuple = ()
    dependent: tuple = ()


# ---------------------------------------------------------------------------
# jet coordinates and total derivatives on the sympy side


def jet_name(dependent, independent, a, counts):
    if not any(counts):
        return dependent[a]
    return dependent[a] + "_" + "".join(
        n * c for n, c in zip(independent, counts)
    )


def decode(name, independent, dependent):
    """(a, counts) for a jet-coordinate name, None for anything else."""
    head, _sep, suffix = name.partition("_")
    if head not in dependent:
        return None
    counts = [0] * len(independent)
    pos = 0
    for i, ind in enumerate(independent):
        while suffix.startswith(ind, pos):
            counts[i] += 1
            pos += len(ind)
    if pos != len(suffix):
        return None
    return dependent.index(head), tuple(counts)


def total_derivative(e, i, independent, dependent):
    """D_i e: the partial in x^i plus u^a_{J+i} times the partial in u^a_J."""
    out = sp.diff(e, sp.Symbol(independent[i]))
    for s in e.free_symbols:
        hit = decode(s.name, independent, dependent)
        if hit is None:
            continue
        a, counts = hit
        up = list(counts)
        up[i] += 1
        nxt = sp.Symbol(jet_name(dependent, independent, a, up))
        out += nxt * sp.diff(e, s)
    return out


# ---------------------------------------------------------------------------
# printing sympy expressions in the problem-file grammar


def to_jsf(e) -> str:
    """Fully parenthesised text that jetsym's parser reads back exactly.
    Rationals are written as ``p/q`` literals, never as ``a^b/c``."""
    if e.is_Integer:
        return str(e) if e >= 0 else f"({e})"
    if e.is_Rational:
        return f"({e.p}/{e.q})" if e.p >= 0 else f"(-{-e.p}/{e.q})"
    if e.is_Symbol:
        return e.name
    if e.is_Add:
        return "(" + " + ".join(to_jsf(t) for t in e.args) + ")"
    if e.is_Mul:
        return "(" + "*".join(to_jsf(f) for f in e.args) + ")"
    if e.is_Pow:
        if not e.exp.is_Integer:
            raise ValueError(f"non-integer exponent in {e}")
        return f"{to_jsf(e.base)}^({int(e.exp)})"
    if isinstance(e, (sp.exp, sp.sin, sp.cos, sp.log)):
        return f"{type(e).__name__}({to_jsf(e.args[0])})"
    raise ValueError(f"cannot print {e!r} as a problem-file expression")


def is_zero(e) -> bool:
    """Exact zero test: with sin and cos rewritten through exponentials,
    a rational function of x, u, u_x and exponentials is zero exactly when
    its cancelled form is."""
    return sp.cancel(sp.expand(e.rewrite(sp.exp))) == 0


def _nonzero(rng, lo=-3, hi=3):
    while True:
        c = rng.randint(lo, hi)
        if c:
            return c


# ---------------------------------------------------------------------------
# prolong-pde


_PDE_IND = ("x", "t")
_PDE_DEP = ("u", "v")


# Two fields, the second the mirror image (x <-> t, u <-> v) of the first,
# each with its own unipotent gauge (upper triangular for the first, its
# mirror, lower triangular, for the second).  Only the coefficients are
# seeded, so the expression sizes, and with them the work per file, are
# the same for every seed, and the two fields cost about the same.
_FIELD_SHAPES = (
    (("x*t",), ("x*x",), ("u*v", "x"), ("u*u", "t")),
    (("t*t",), ("x*t",), ("v*v", "x"), ("u*v", "t")),
)
_GAUGE_SHAPES = ((0, 1, ("x*u", "t*v", "u")), (1, 0, ("t*v", "x*u", "v")))


def _shaped(rng, monomials):
    return sp.Add(*(_nonzero(rng) * sp.sympify(m) for m in monomials))


def prolong_pde(seed: int) -> Corpus:
    rng = random.Random(f"prolong-pde:{seed}")
    lines = [
        "# prolong-pde corpus, seed %d" % seed,
        "[jet]",
        "independent = x, t",
        "dependent = u, v",
        "order = 2",
        "",
    ]
    corpus = Corpus("", {}, independent=_PDE_IND, dependent=_PDE_DEP)
    tasks = []
    for k, (shape, (row, col, gshape)) in enumerate(zip(_FIELD_SHAPES, _GAUGE_SHAPES)):
        xi_x, xi_t, phi_u, phi_v = (_shaped(rng, m) for m in shape)
        corpus.fields[f"F{k}"] = ((xi_x, xi_t), (phi_u, phi_v))
        lines += [
            f"[field F{k}]",
            f"xi x = {to_jsf(xi_x)}",
            f"xi t = {to_jsf(xi_t)}",
            f"phi u = {to_jsf(phi_u)}",
            f"phi v = {to_jsf(phi_v)}",
            "",
        ]
        # a unipotent gauge I + N with one off-diagonal entry g: its Darboux
        # derivative (I - N) D_i N = D_i N is flat
        g = _shaped(rng, gshape)
        rname, cname = _PDE_DEP[row], _PDE_DEP[col]
        lines += [f"[gauge G{k}]", f"{rname} {cname} = {to_jsf(g)}", "", f"[mu M{k}]"]
        mu_entries = {}
        for i, name in enumerate(_PDE_IND):
            dg = sp.expand(total_derivative(g, i, _PDE_IND, _PDE_DEP))
            mu_entries[(i, row, col)] = dg
            lines.append(f"{name} {rname} {cname} = {to_jsf(dg)}")
        lines.append("")
        if k == 0:
            corpus.darboux["darboux-0"] = mu_entries
        tasks += [
            (f"prolong-std-{k}", "prolong",
             [f"field = F{k}", "kind = standard", f"order = {PDE_ORDER}"], True),
            (f"prolong-mu-{k}", "prolong",
             [f"field = F{k}", "kind = mu", f"mu = M{k}", f"order = {PDE_ORDER}",
              "path-check = true"], True),
        ]
    # One compatibility pair per file: with six tasks the pooled median
    # falls between the two standard lifts, which cost the same.
    tasks += [
        ("compat-0", "check-compat", ["mu = M0"], True),
        ("darboux-0", "darboux", ["gauge = G0"], True),
    ]
    corpus.text = _emit(lines, tasks, corpus.expected)
    return corpus


def _emit(lines, tasks, expected):
    for task_id, kind, args, answer in tasks:
        lines.append(f"[task {kind} {task_id}]")
        lines += args
        lines.append("")
        expected[task_id] = answer
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ode-sweep


_ODE_IND = ("x",)
_ODE_DEP = ("u",)
X, U, UX = sp.symbols("x u u_x")

LAMBDA_PER_POOL = 9
SCALING_TRUE = 16
SCALING_FALSE = 8
GAUGE_CHECKS = 8
POTENTIAL_TRUE = 7
POTENTIAL_FALSE = 3
COINCIDE = 8


def _small_poly(rng, degree):
    return sp.Add(*(_nonzero(rng) * X**d for d in range(degree + 1)))


def _lambda_from_pool(rng, pool):
    if pool == "poly":
        return _small_poly(rng, 2)
    if pool == "rational":
        return _small_poly(rng, 1) / (X**2 + rng.randint(1, 4))
    if pool == "exp":
        return _nonzero(rng) * sp.exp(_nonzero(rng, -2, 2) * X) + _nonzero(rng)
    k = rng.randint(1, 2)
    return _small_poly(rng, 1) * sp.sin(k * X) + _nonzero(rng) * sp.cos(k * X)


def _coefficient(rng, pool):
    """A coefficient function g(x) for the scaling family."""
    if pool == "poly":
        return _small_poly(rng, 1)
    if pool == "rational":
        return _nonzero(rng) / (X**2 + rng.randint(1, 3))
    if pool == "exp":
        return _nonzero(rng) * sp.exp(_nonzero(rng, -1, 1) * X)
    return _nonzero(rng) * sp.sin(X) + _nonzero(rng) * sp.cos(X)


_POOLS = ("poly", "rational", "exp", "trig")
# Every family has a fixed monomial shape with seeded nonzero coefficients,
# so the cost of a file changes little from seed to seed.


def _sin_squared_rewrite(e):
    """Replace every sin(k x)^2 by 1 - cos(k x)^2 (an identity jetsym does
    not know), so the residual only vanishes numerically."""
    e = sp.expand(e)
    squares = {p for p in e.atoms(sp.Pow) if isinstance(p.base, sp.sin) and p.exp == 2}
    return sp.expand(e.subs({p: 1 - sp.cos(p.base.args[0]) ** 2 for p in squares}))


def ode_sweep(seed: int) -> Corpus:
    rng = random.Random(f"ode-sweep:{seed}")
    lines = [
        "# ode-sweep corpus, seed %d" % seed,
        "[jet]",
        "independent = x",
        "dependent = u",
        "order = 2",
        "",
        "[field U]",
        "xi x = 0",
        "phi u = 1",
        "",
        "[field V]",
        "xi x = 0",
        "phi u = u",
        "",
    ]
    corpus = Corpus("", {}, independent=_ODE_IND, dependent=_ODE_DEP)
    tasks = []

    n = 0
    for pool in _POOLS:
        for j in range(LAMBDA_PER_POOL):
            lam = _lambda_from_pool(rng, pool)
            a = _small_poly(rng, 1)
            b = sp.expand(sp.diff(lam, X) + lam**2 - a * lam)
            if pool == "rational":
                b = sp.cancel(sp.together(b))
            if pool == "trig" and j % 2 == 0:
                b = _sin_squared_rewrite(b)
            eq = f"L{n}"
            lines += [f"[equation {eq}]", f"u_xx = {to_jsf(a * UX + b * U)}", ""]
            tasks += [
                (f"lambda-{pool}-{j}", "check-symmetry",
                 ["field = U", f"equation = {eq}", "kind = lambda",
                  f"lambda = {to_jsf(lam)}"], True),
                (f"standard-{pool}-{j}", "check-symmetry",
                 ["field = U", f"equation = {eq}", "kind = standard"], is_zero(b)),
            ]
            n += 1

    for j in range(SCALING_TRUE + SCALING_FALSE):
        g = _coefficient(rng, _POOLS[j % 4])
        h = _coefficient(rng, _POOLS[(j + 1) % 4])
        f = UX**2 / U + g * UX + h * U
        if j >= SCALING_TRUE:
            f += _nonzero(rng) * X + _nonzero(rng) * sp.exp(X)
        # standard lift of u d/du: psi_J = u_J, so the restricted residual
        # is f - (u f_u + u_x f_{u_x})
        residual = f - (U * sp.diff(f, U) + UX * sp.diff(f, UX))
        eq = f"S{j}"
        lines += [f"[equation {eq}]", f"u_xx = {to_jsf(f)}", ""]
        tasks.append(
            (f"scaling-{j}", "check-symmetry",
             ["field = V", f"equation = {eq}", "kind = standard"], is_zero(residual))
        )

    for j in range(GAUGE_CHECKS):
        xi = _small_poly(rng, 1) + _nonzero(rng) * U
        ph = _small_poly(rng, 1) + _nonzero(rng) * U
        pot = _nonzero(rng) * X**2 + _nonzero(rng) * X * U + _nonzero(rng) * U
        lines += [f"[field W{j}]", f"xi x = {to_jsf(xi)}", f"phi u = {to_jsf(ph)}", ""]
        tasks.append(
            (f"gauge-{j}", "gauge-check", [f"field = W{j}", f"phi = {to_jsf(pot)}"], True)
        )

    for j in range(POTENTIAL_TRUE + POTENTIAL_FALSE):
        phi0 = (_nonzero(rng) * X * U + _nonzero(rng) * U**2
                + _nonzero(rng) * X**2 * U + _nonzero(rng) * X)
        lam = sp.expand(total_derivative(phi0, 0, _ODE_IND, _ODE_DEP))
        if j >= POTENTIAL_TRUE:
            lam += _nonzero(rng) * UX**2
        # a form on the 1-jet space has a potential exactly when its Euler
        # operator E(lam) = lam_u - D_x(lam_{u_x}) vanishes
        euler = sp.expand(
            sp.diff(lam, U) - total_derivative(sp.diff(lam, UX), 0, _ODE_IND, _ODE_DEP)
        )
        lines += [f"[mu P{j}]", f"x = {to_jsf(lam)}", ""]
        tasks.append((f"potential-{j}", "potential", [f"mu = P{j}"], is_zero(euler)))

    for j in range(COINCIDE):
        # a seeded x^2 coefficient would swing the cost of a task by 4x
        xi = 1 + X**2
        ph = _small_poly(rng, 1) + _nonzero(rng) * U
        lam = _small_poly(rng, 1) + _nonzero(rng) * U
        lines += [f"[field C{j}]", f"xi x = {to_jsf(xi)}", f"phi u = {to_jsf(ph)}", "",
                  f"[mu Q{j}]", f"x = {to_jsf(lam)}", ""]
        # deformed and standard lifts agree on the invariant set of the field
        tasks.append((f"coincide-{j}", "coincide", [f"field = C{j}", f"mu = Q{j}"], True))

    corpus.text = _emit(lines, tasks, corpus.expected)
    return corpus


def generate(workload: str, seed: int) -> Corpus:
    if workload == "prolong-pde":
        return prolong_pde(seed)
    if workload == "ode-sweep":
        return ode_sweep(seed)
    raise ValueError(f"unknown workload {workload!r}")


def main(argv) -> int:
    workload, seed, out_dir = argv[0], int(argv[1]), Path(argv[2])
    corpus = generate(workload, seed)
    (out_dir / "problem.jsf").write_text(corpus.text, encoding="utf-8")
    (out_dir / "expected.json").write_text(
        json.dumps({"tasks": corpus.expected, "oracle": bool(corpus.fields)}),
        encoding="utf-8",
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
