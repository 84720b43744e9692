"""Derivations against an independent oracle.

``pdiff``, ``total_derivative``, ``JetVectorField.apply`` and
``scalar_differential`` are checked
against sympy on seeded random rational functions with negative powers,
``log`` and nested ``exp``/``sin``/``cos``.  sympy reads a result from
its printed text (pinned by ``test_printing``), and the result agrees
when sympy simplifies the difference to zero after rewriting every
kernel through exponentials.  One standard prolongation with sum denominators is
checked the same way, in a child process with a time limit.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

sp = pytest.importorskip("sympy")

from jetsym.errors import SymbolicDivisionError  # noqa: E402
from jetsym.expr import pdiff, to_string  # noqa: E402
from jetsym.jets import (  # noqa: E402
    JetSpec,
    JetVectorField,
    MultiIndex,
    basis_key_du,
    basis_key_dx,
    scalar_differential,
    total_derivative,
)
from jetsym.parsing import parse  # noqa: E402

SEED = 20240611
CASES = 20

ODE = JetSpec(("x",), ("u",), 2)
NAMES = ("x", "u", "u_x")
SYMBOLS = {n: sp.Symbol(n) for n in NAMES + ("u_xx",)}
FUNCS = {"exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos}


def _rand_tree(rng, depth):
    """A random expression as (jetsym text, sympy expression)."""
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.75:
            name = rng.choice(NAMES)
            return name, SYMBOLS[name]
        k = rng.randint(1, 4)
        return str(k), sp.Integer(k)
    kind = rng.choice(("add", "mul", "pow", "func", "func"))
    if kind == "func":
        name = rng.choice(tuple(FUNCS))
        # arguments always hold a variable, so no kernel folds to a constant
        var = rng.choice(NAMES)
        text, expr = _rand_tree(rng, depth - 1)
        return (f"{name}({text} + {var})", FUNCS[name](expr + SYMBOLS[var]))
    if kind == "pow":
        k = rng.choice((-2, -1, 2, 3))
        text, expr = _rand_tree(rng, depth - 1)
        return f"({text})^({k})", expr**k
    (ta, ea), (tb, eb) = _rand_tree(rng, depth - 1), _rand_tree(rng, depth - 1)
    if kind == "add":
        return f"({ta}) + ({tb})", ea + eb
    return f"({ta})*({tb})", ea * eb


def rand_text(rng, depth=3, min_ops=4):
    """A random function of x, u, u_x that jetsym and sympy both accept,
    as (jetsym text, sympy expression)."""
    while True:
        text, expr = _rand_tree(rng, depth)
        if expr.has(sp.zoo, sp.nan) or sp.count_ops(expr) < min_ops:
            continue
        try:
            parse(text)
        except SymbolicDivisionError:
            continue
        return text, expr


def rand_function(rng, depth=3, min_ops=4):
    """``rand_text`` with the text parsed."""
    text, expr = rand_text(rng, depth, min_ops)
    return parse(text), expr


def to_sympy(e):
    """The printed text of ``e`` read by sympy."""
    return sp.sympify(to_string(e).replace("^", "**"), locals={**SYMBOLS, **FUNCS})


def agrees(got, want):
    diff = (to_sympy(got) - want).rewrite(sp.exp)
    return sp.simplify(diff) == 0


def cases(salt, n=CASES):
    rng = random.Random(f"{SEED}:{salt}")
    return [rand_function(rng) for _ in range(n)]


@pytest.mark.parametrize("name", NAMES)
def test_pdiff_matches_sympy(name):
    for e, expr in cases(f"pdiff-{name}"):
        got = pdiff(e, name)
        assert agrees(got, sp.diff(expr, SYMBOLS[name])), (str(e), str(got))


def test_total_derivative_matches_sympy():
    x, u, ux, uxx = (SYMBOLS[n] for n in ("x", "u", "u_x", "u_xx"))
    for e, expr in cases("total"):
        got = total_derivative(e, 0, ODE)
        want = sp.diff(expr, x) + ux * sp.diff(expr, u) + uxx * sp.diff(expr, ux)
        assert agrees(got, want), (str(e), str(got))


def test_vector_field_apply_matches_sympy():
    rng = random.Random(f"{SEED}:apply")
    # sympy needs longest to simplify these, so fewer cases
    for e, expr in cases("apply", CASES // 2):
        comps = [rand_function(rng, depth=2, min_ops=1) for _ in NAMES]
        (xi, xi_s), (psi0, psi0_s), (psi1, psi1_s) = comps
        Y = JetVectorField(
            ODE, (xi,), {(0, MultiIndex((0,))): psi0, (0, MultiIndex((1,))): psi1}
        )
        got = Y.apply(e)
        want = sum(
            (c * sp.diff(expr, SYMBOLS[n]) for c, n in zip((xi_s, psi0_s, psi1_s), NAMES)),
            sp.Integer(0),
        )
        assert agrees(got, want), (str(e), str(got))


def test_scalar_differential_matches_sympy():
    keys = {
        "x": basis_key_dx(0),
        "u": basis_key_du(0, MultiIndex((0,))),
        "u_x": basis_key_du(0, MultiIndex((1,))),
    }
    for e, expr in cases("differential", CASES // 2):
        omega = scalar_differential(e, ODE)
        assert set(omega.coeffs) <= set(keys.values())
        for name, key in keys.items():
            got = omega.coefficient(key)
            assert agrees(got, sp.diff(expr, SYMBOLS[name])), (str(e), name, str(got))


LIFT = """
from jetsym.expr import to_string
from jetsym.jets import JetSpec, MultiIndex
from jetsym.parsing import parse
from jetsym.prolong import PointVectorField, prolong_standard

spec = JetSpec(("x",), ("u",), 2)
X = PointVectorField(spec, (parse("1/(1 + x)"),), (parse("u/x^2"),))
Y = prolong_standard(X, 2)
for k in (1, 2):
    print(to_string(Y.psi_at(0, MultiIndex((k,)))))
"""


def test_rational_standard_lift_matches_sympy_in_time():
    # the gcd's remainder sequence once let rational coefficients grow
    # without bound here, and this lift did not finish in 30 s
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", LIFT], env=env, capture_output=True, text=True, timeout=20
    )
    assert proc.returncode == 0, proc.stderr
    got = [sp.sympify(line.replace("^", "**"), locals=SYMBOLS)
           for line in proc.stdout.splitlines()]
    x, u, ux, uxx = (SYMBOLS[n] for n in ("x", "u", "u_x", "u_xx"))

    def D(f):
        return sp.diff(f, x) + ux * sp.diff(f, u) + uxx * sp.diff(f, ux)

    xi, phi = 1 / (1 + x), u / x**2
    psi_x = D(phi) - ux * D(xi)
    psi_xx = D(psi_x) - uxx * D(xi)
    assert len(got) == 2
    assert sp.simplify(got[0] - psi_x) == 0
    assert sp.simplify(got[1] - psi_xx) == 0
