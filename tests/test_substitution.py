"""Substitution and restriction against independent oracles.

``substitute`` is checked against sympy's ``subs`` on seeded random
rational functions with negative powers, ``log`` and nested
``exp``/``sin``/``cos``, with replacements that carry denominators and
kernels, and against parsing the function's text with its variables
replaced by the parenthesized replacement texts, which normalizes the
syntax tree with its variables replaced.
``restrict_to_solution_manifold`` is checked against a sympy
restriction on a random scalar second-order ODE.  Every result read
by sympy is first checked to be canonical (``test_derivation.to_sympy``).
"""

import random
import re

import pytest

sp = pytest.importorskip("sympy")

from jetsym.errors import SymbolicDivisionError  # noqa: E402
from jetsym.expr import rational, substitute, variable  # noqa: E402
from jetsym.parsing import parse  # noqa: E402
from jetsym.symmetry import DifferentialEquation, restrict_to_solution_manifold  # noqa: E402
from test_derivation import (  # noqa: E402
    ODE,
    SEED,
    SYMBOLS,
    agrees,
    rand_function,
    rand_text,
    to_sympy,
)

CASES = 20

REPLACEMENTS = (
    "(x+2)/(t-3)", "1/(x+t)", "exp(-x)", "log(x)", "t^2 - x", "sin(t)/(1+x^2)",
    "1/(1+exp(x))",
)
# A denominator holding a sum with exponentials has no unique reduced
# form: the gcd works over the atoms, where exp(2*x) and exp(x)^2 are
# unrelated, so the form depends on the order of the arithmetic.
EXP_SUM_DENOMINATOR = "1/(1+exp(x))"


def _sympy_of(text):
    names = {n: sp.Symbol(n) for n in ("x", "t")}
    names.update({"exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos})
    return sp.sympify(text.replace("^", "**"), locals=names)


def _agrees(got, want):
    """``agrees``, or else equal to 40 digits at three positive points:
    sympy does not always see ``exp(x)*exp(g) = exp(x + g)`` when ``g``
    is itself a fraction of exponentials."""
    if agrees(got, want):
        return True
    diff = to_sympy(got) - want
    rng = random.Random(str(diff))
    for _ in range(3):
        point = {s: sp.Rational(rng.randint(1, 9), rng.randint(2, 7)) for s in diff.free_symbols}
        if abs(diff.evalf(50, subs=point)) > 1e-40:
            return False
    return True


def _replaced_text(text, named):
    """``text`` with every bound name replaced by its parenthesized
    replacement text."""
    return re.sub(
        r"[A-Za-z][A-Za-z0-9_]*",
        lambda m: f"({named[m.group()]})" if m.group() in named else m.group(),
        text,
    )


def _cases(salt, n=CASES):
    rng = random.Random(f"{SEED}:{salt}")
    out = []
    while len(out) < n:
        text, expr = rand_text(rng)
        chosen = rng.sample(REPLACEMENTS, 2)
        named = {"u": chosen[0], "u_x": chosen[1]}
        want = expr.subs(
            {SYMBOLS["u"]: _sympy_of(chosen[0]), SYMBOLS["u_x"]: _sympy_of(chosen[1])},
            simultaneous=True,
        )
        if want.has(sp.zoo, sp.nan):
            continue
        out.append((text, named, want))
    return out


def test_substitute_matches_sympy():
    for text, named, want in _cases("subst"):
        got = substitute(parse(text), {k: parse(v) for k, v in named.items()})
        assert _agrees(got, want), (text, named, str(got))


def test_substitute_equals_normalized_tree_walk():
    # the parser walks the syntax tree of the text with its variables
    # replaced and folds it to a canonical value; without exponential
    # sums in denominators the reduced form is unique, so the two routes
    # give the same value
    for text, named, _want in _cases("walk", 3 * CASES):
        if EXP_SUM_DENOMINATOR in named.values():
            continue
        got = substitute(parse(text), {k: parse(v) for k, v in named.items()})
        assert got == parse(_replaced_text(text, named)), (text, named)


@pytest.mark.parametrize("text, bindings, want", [
    ("exp(u)*exp(x)", {"u": "-x"}, "1"),
    ("log(u)", {"u": "1"}, "0"),
    ("sin(u) + cos(u)", {"u": "0"}, "1"),
    ("u^3/(u_x + 1)^2", {"u": "1/(x+t)", "u_x": "exp(-x)"},
     "1/((x+t)^3*(exp(-x)+1)^2)"),
    ("exp(u)/(1 + exp(u))", {"u": "-x"}, "exp(-x)/(1 + exp(-x))"),
    ("(u - x)/(u^2 - x^2)", {"u": "x + 1"}, "1/(2*x + 1)"),
    ("x + u", {"t": "x"}, "x + u"),
])
def test_substitute_exact_cases(text, bindings, want):
    got = substitute(parse(text), {k: parse(v) for k, v in bindings.items()})
    assert got == parse(want)


def test_substitute_into_vanishing_denominator_raises():
    with pytest.raises(SymbolicDivisionError):
        substitute(parse("1/(u-x)"), {"u": parse("x")})
    with pytest.raises(SymbolicDivisionError):
        substitute(parse("exp(u)/sin(u)"), {"u": parse("0")})


def test_substitute_acts_on_the_canonical_value():
    # x * x^(-1) is 1 before anything is substituted, so x -> 0 is harmless
    x = variable("x")
    assert substitute(x * x ** -1, {"x": parse("0")}) == rational(1)


def _total_x(g):
    x, u, ux, uxx = (SYMBOLS[n] for n in ("x", "u", "u_x", "u_xx"))
    return sp.diff(g, x) + ux * sp.diff(g, u) + uxx * sp.diff(g, ux)


def test_restriction_matches_sympy():
    rng = random.Random(f"{SEED}:restrict")
    uxx, uxxx = SYMBOLS["u_xx"], sp.Symbol("u_xxx")
    for _ in range(CASES // 2):
        f, f_s = rand_function(rng, depth=2)
        eq = DifferentialEquation.from_strings(ODE, {"u_xx": f})
        (a, a_s), (b, b_s), (c, c_s) = (rand_function(rng, depth=2, min_ops=1) for _ in "abc")
        e = a + b * parse("u_xx") + c * parse("u_xxx")
        e_s = a_s + b_s * uxx + c_s * uxxx
        want = e_s.subs(uxxx, _total_x(f_s)).subs(uxx, f_s)
        got = restrict_to_solution_manifold(e, eq)
        assert agrees(got, want), (str(f), str(e), str(got))
