"""Derivations against an independent oracle.

``pdiff``, ``total_derivative``, ``JetVectorField.apply`` and the
``scalar_differential`` of the forms oracle are checked
against sympy on seeded random rational functions with negative powers,
``log`` and nested ``exp``/``sin``/``cos``, and on fixed quotients whose
numerator alone or denominator alone moves along a direction; total
derivatives also on a space of two independent and two dependent
variables, declared in either order, and vector fields also with
components of several atoms.  sympy reads a result from its printed
text (pinned by ``test_printing``), and the result agrees when sympy
simplifies the difference to zero after rewriting every kernel through
exponentials.  Printed text cannot show a monomial that holds an atom
twice, so every result is first checked to be canonical
(``helpers.assert_canonical``), and a Hypothesis property compares
pairs: a one-atom image is placed into a monomial exactly as
``poly_mul`` places it.
Exp-free quotients whose denominators are free of a direction, squared,
or hold u and u_x must match sympy's ``cancel`` with a fully reduced
denominator; the printed derivatives of seeded quotients of exp, sin
and cos sums must match a digest recorded while every quotient took
the quotient rule over the squared denominator.
Standard prolongations whose gcds once ran
for minutes (sum denominators, high negative powers, random rational
fields) run in a child process with a time limit and are checked against
sympy, symbolically or at exact random rational points.
"""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sp = pytest.importorskip("sympy")

from jetsym import _kernel_py  # noqa: E402
from jetsym.errors import SymbolicDivisionError  # noqa: E402
from jetsym.expr import (  # noqa: E402
    ZERO,
    Derivation,
    _rf_of,
    expr_prod,
    pdiff,
    rational,
    sin,
    to_string,
    variable,
)
from jetsym.jets import JetSpec, JetVectorField, total_derivative  # noqa: E402
from jetsym.parsing import parse  # noqa: E402

from forms import basis_key_du, basis_key_dx, inc, scalar_differential  # noqa: E402
from helpers import assert_canonical, atom_key, rand_poly, run_child  # noqa: E402

SEED = 20240611
CASES = 20

ODE = JetSpec(("x",), ("u",), 2)
NAMES = ("x", "u", "u_x")
SYMBOLS = {n: sp.Symbol(n) for n in NAMES + ("u_xx",)}
FUNCS = {"exp": sp.exp, "log": sp.log, "sin": sp.sin, "cos": sp.cos}
# Quotients whose numerator alone or denominator alone moves along some
# direction, each with the component of the field of
# ``test_vector_field_apply_matches_sympy`` that is zero for it (0: xi,
# 1: psi on u, 2: psi on u_x).  Those fields move the denominator alone,
# the numerator alone twice, and neither: the last field has no psi on
# u_x, so its derivative of the last quotient is zero.
QUOTIENTS = (
    ("u_x/(1 + x^2)", 2),
    ("x/(1 + u)", 1),
    ("exp(u)/(1 + x)", 0),
    ("2/(1 + u_x^2)", 2),
)


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
    """The printed text of ``e`` read by sympy, once ``e`` is checked to be
    canonical."""
    assert_canonical(e)
    return sp.sympify(to_string(e).replace("^", "**"), locals={**SYMBOLS, **FUNCS})


def agrees(got, want):
    diff = (to_sympy(got) - want).rewrite(sp.exp)
    return sp.simplify(diff) == 0


def cases(salt, n=CASES):
    """``n`` random functions, then the ``QUOTIENTS``."""
    rng = random.Random(f"{SEED}:{salt}")
    return [rand_function(rng) for _ in range(n)] + [
        (parse(text), sp.sympify(text.replace("^", "**"), locals={**SYMBOLS, **FUNCS}))
        for text, _ in QUOTIENTS]


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


# The atoms of a monomial, in atom order, and the direction variable w
# among them, whose image is one atom power c*b^f: b can sort before,
# between or after the other atoms, be one of them, be w itself, or be
# the function atom sin(a).
PLACED = (variable("a"), variable("m"), variable("w"), variable("z"), sin(variable("a")))
W = 2


@settings(max_examples=300, deadline=None)
@given(exps=st.lists(st.integers(0, 3), min_size=len(PLACED), max_size=len(PLACED)),
       w_exp=st.integers(1, 3), b=st.integers(0, len(PLACED) - 1), f=st.integers(1, 3),
       c=st.integers(-3, 3).filter(bool))
@example(exps=[0, 1, 0, 1, 0], w_exp=1, b=0, f=1, c=1)  # b absent, lands first
@example(exps=[1, 0, 0, 1, 1], w_exp=2, b=1, f=2, c=2)  # b absent, lands in the middle
@example(exps=[1, 1, 0, 1, 0], w_exp=1, b=4, f=3, c=-1)  # sin(a) absent, lands last
@example(exps=[2, 1, 0, 1, 1], w_exp=1, b=0, f=1, c=1)  # b present and first
@example(exps=[1, 3, 0, 1, 1], w_exp=3, b=1, f=3, c=3)  # b present in the middle
@example(exps=[1, 1, 0, 1, 2], w_exp=1, b=4, f=2, c=-2)  # sin(a) present and last
@example(exps=[0, 0, 0, 0, 0], w_exp=1, b=3, f=2, c=1)  # nothing else: the image itself
@example(exps=[1, 0, 0, 0, 0], w_exp=3, b=W, f=2, c=1)  # b is w itself
def test_a_one_atom_image_is_placed_as_poly_mul_places_it(exps, w_exp, b, f, c):
    exps[W] = w_exp
    image = rational(c) * PLACED[b] ** f
    assert [atom_key(v) for v in PLACED] == sorted(atom_key(v) for v in PLACED)
    e = expr_prod(v ** k for v, k in zip(PLACED, exps))
    got = Derivation({"w": image}.get)(e)
    # D(rest * w^k) = k * rest * w^(k-1) * image
    rest = expr_prod(v ** (k - (j == W)) for j, (v, k) in enumerate(zip(PLACED, exps)))
    want = _kernel_py.poly_mul(_rf_of(rational(w_exp) * rest)[0], _rf_of(image)[0])
    assert _rf_of(got) == (want, {(): (1, 1)})


def jet_symbols(spec):
    """sympy symbols of the independent names and of every coordinate up
    to one order above the space, the order of the images of its top
    coordinates."""
    return {n: sp.Symbol(n) for n in spec.independent + tuple(
        spec.jet_name(a, J) for a in range(spec.q)
        for J in spec.multi_indices(spec.order + 1))}


def check_total_derivatives(spec, i, texts):
    """D_i of each text on ``spec`` agrees with sympy's chain rule."""
    symbols = jet_symbols(spec)
    locals_ = {**symbols, **FUNCS}
    coordinate = symbols[spec.independent[i]]
    for text in texts:
        expr = sp.sympify(text.replace("^", "**"), locals=locals_)
        want = sp.diff(expr, coordinate)
        for symbol in expr.free_symbols - set(map(symbols.get, spec.independent)):
            a, J = spec.decode(symbol.name)[1:]
            want += symbols[spec.jet_name(a, inc(J, i))] * sp.diff(expr, symbol)
        got = total_derivative(parse(text), i, spec)
        assert_canonical(got)
        printed = sp.sympify(to_string(got).replace("^", "**"), locals=locals_)
        assert sp.simplify((printed - want).rewrite(sp.exp)) == 0, (text, str(got))


PDE = JetSpec(("x", "t"), ("u", "v"), 3)
PDE_NAMES = ("x", "t", "u", "v", "u_x", "v_t", "u_xt")
# Monomials whose image atom under D_x or D_t lands before, between and
# after the other atoms, merges with an atom already present, or sorts
# before a function atom.  Atoms sort by name: t < u < u_t < u_x < u_xt <
# u_xx < v < v_t < x, then exp(...) and sin(...).
PLACEMENTS = (
    "t*u_x",  # D_x: u_xx after t
    "u_x*x",  # D_x: u_xx before x
    "t*u_x*x",  # D_x: u_xx between t and x
    "u_x*u_xx",  # D_x: u_xx merges with u_xx, u_xxx after u_x
    "u_x^2*u_xx*v",  # D_x: merges into u_xx^2, u_xxx between u_x^2 and v
    "u*exp(v)",  # u_x or u_t before exp(v)
    "t*u_t*sin(v_t)",  # D_t: u_tt between t and sin(v_t)
    "u_x*v_t",  # D_t: u_xt before v_t, v_tt after u_x
    "(u_x*x + t)/(v*u_xt + 1)",  # both parts move
    "x*t/(u_t^2 + v)",  # the denominator alone moves along t
)


def _rand_poly_text(rng, degree=3, terms=4, names=PDE_NAMES):
    """A random polynomial text in ``names``."""
    parts = []
    for _ in range(rng.randint(1, terms)):
        factors = [rng.choice(names) for _ in range(rng.randint(0, degree))]
        parts.append("*".join([str(rng.choice((-3, -2, -1, 1, 2, 3)))] + factors))
    return " + ".join(f"({part})" for part in parts)


def rand_jet_text(rng, names=PDE_NAMES):
    """A random polynomial or quotient in ``names`` (independent names
    first, then two dependent ones), at times times ``exp`` or ``sin`` of
    a jet variable."""
    while True:
        text = _rand_poly_text(rng, names=names)
        if rng.random() < 0.5:
            text = f"({text})/({_rand_poly_text(rng, degree=2, terms=3, names=names)})"
        if rng.random() < 0.5:
            kernel = rng.choice(("exp", "sin"))
            text = f"({text})*{kernel}({rng.choice(names[2:])})"
        try:
            if parse(text) != ZERO:
                return text
        except SymbolicDivisionError:
            pass


@pytest.mark.parametrize("i", (0, 1))
def test_total_derivative_on_a_pde_space_matches_sympy(i):
    rng = random.Random(f"{SEED}:pde-total-{i}")
    check_total_derivatives(PDE, i, [rand_jet_text(rng) for _ in range(CASES)]
                            + list(PLACEMENTS))


# The same space with t declared first: a mixed coordinate names t first,
# so D_t u_x = u_tx sorts before its source u_x, D_t v_x = v_tx before
# v_x, and D_x u_t = u_tx after u_t.  Atoms sort: t < u < u_t < u_tx < u_x <
# u_xx < v < v_t < v_tx < v_x < x.
TX = JetSpec(("t", "x"), ("u", "v"), 3)
TX_NAMES = ("t", "x", "u", "v", "u_x", "v_x", "u_t", "u_tx")
TX_PLACEMENTS = (
    "u_x",  # D_t: u_tx alone
    "u_x*x",  # D_t: u_tx before x
    "t*u_x^2*v",  # D_t: u_tx between t and the remaining u_x
    "u_tx*u_x",  # D_t: u_tx merges into u_tx^2; D_x: u_txx before u_x
    "u_t*u_tx*v_x",  # D_t: u_tt first, u_ttx between; D_x: u_tx merges into u_tx^2
    "v_x*exp(u)",  # D_t: v_tx before exp(u)
    "(t*u_x + v)/(u_t*v_x + 1)",  # both parts move
)


@pytest.mark.parametrize("i", (0, 1))
def test_total_derivative_on_a_space_declared_t_first_matches_sympy(i):
    rng = random.Random(f"{SEED}:tx-total-{i}")
    check_total_derivatives(TX, i, [rand_jet_text(rng, TX_NAMES) for _ in range(CASES // 2)]
                            + list(TX_PLACEMENTS))


# Denominators of the quotient rule: free of x or of u and u_x (so D den
# is 0 along those), squared, and holding u and u_x.
DENOMINATORS = (
    lambda rng: f"({_rand_poly_text(rng, 2, 3, ('u', 'u_x'))})^{rng.randint(1, 2)}",
    lambda rng: f"({_rand_poly_text(rng, 2, 3, ('x',))})^{rng.randint(1, 2)}",
    lambda rng: "(x^2 + 2)^2",
    lambda rng: f"({_rand_poly_text(rng, 2, 3, NAMES)})^{rng.randint(1, 2)}",
)


def rand_quotient(rng):
    """A random exp-free rational function of x, u, u_x, as (jetsym value,
    sympy expression)."""
    while True:
        text = (f"({_rand_poly_text(rng, 2, 3, NAMES)})"
                f"/({rng.choice(DENOMINATORS)(rng)})")
        try:
            e = parse(text)
        except SymbolicDivisionError:
            continue
        return e, sp.sympify(text.replace("^", "**"), locals=SYMBOLS)


def reduced_and_equal(got, want):
    """``got`` equals ``want``, and its denominator is sympy's reduced one
    up to a constant factor."""
    num, den = sp.fraction(to_sympy(got))
    want_num, want_den = sp.fraction(sp.cancel(want))
    ratio = sp.cancel(den / want_den)
    return ratio.is_number and sp.expand(num * want_den - want_num * den) == 0


def test_quotient_rule_matches_sympy_cancel():
    rng = random.Random(f"{SEED}:quotients")
    x, u, ux, uxx = (SYMBOLS[n] for n in ("x", "u", "u_x", "u_xx"))
    for _ in range(CASES):
        e, expr = rand_quotient(rng)
        for name in NAMES:
            got = pdiff(e, name)
            assert reduced_and_equal(got, sp.diff(expr, SYMBOLS[name])), (str(e), name)
        got = total_derivative(e, 0, ODE)
        want = sp.diff(expr, x) + ux * sp.diff(expr, u) + uxx * sp.diff(expr, ux)
        assert reduced_and_equal(got, want), (str(e), str(got))


def _kernel_text(rng):
    return f"{rng.choice(('exp', 'exp', 'sin', 'cos'))}({rng.randint(1, 2)}*{rng.choice(NAMES)})"


def _kernel_poly_text(rng):
    """A sum of two or three terms, each a coefficient times up to two of
    x, u, u_x, exp, sin and cos of a multiple of one of them."""
    terms = []
    for _ in range(rng.randint(2, 3)):
        factors = [str(rng.choice((-2, -1, 1, 2, 3)))]
        factors += [rng.choice(NAMES + (_kernel_text(rng),)) for _ in range(rng.randint(0, 2))]
        terms.append("*".join(factors))
    return " + ".join(terms)


# sha256 of the printed derivatives along x, u and u_x and the total
# derivative of 100 seeded quotients of kernel sums, recorded while every
# quotient still took (a*e*den - num*c*b) / (b*e*den^2): where a
# denominator sums exponentials, the reduced form depends on that order
KERNEL_QUOTIENT_DIGEST = "1ff66a5dd52ac72f3ac35461b66843150030ae118539215de46068ce29b0127e"


def test_kernel_quotient_derivatives_match_the_recorded_digest():
    rng = random.Random(f"{SEED}:kernel-quotients")
    lines = []
    while len(lines) < 400:
        text = f"({_kernel_poly_text(rng)})/({_kernel_poly_text(rng)})^{rng.randint(1, 2)}"
        try:
            e = parse(text)
        except SymbolicDivisionError:
            continue
        lines += [to_string(pdiff(e, name)) for name in NAMES]
        lines.append(to_string(total_derivative(e, 0, ODE)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == KERNEL_QUOTIENT_DIGEST


def test_vector_field_apply_matches_sympy():
    rng = random.Random(f"{SEED}:apply")
    # sympy needs longest to simplify these, so fewer cases
    for k, (e, expr) in enumerate(cases("apply", CASES // 2)):
        comps = [rand_function(rng, depth=2, min_ops=1) for _ in NAMES]
        if k >= CASES // 2:
            comps[QUOTIENTS[k - CASES // 2][1]] = (ZERO, sp.Integer(0))
        (xi, xi_s), (psi0, psi0_s), (psi1, psi1_s) = comps
        Y = JetVectorField(
            ODE, (xi,), {(0, (0,)): psi0, (0, (1,)): psi1}
        )
        got = Y.apply(e)
        want = sum(
            (c * sp.diff(expr, SYMBOLS[n]) for c, n in zip((xi_s, psi0_s, psi1_s), NAMES)),
            sp.Integer(0),
        )
        assert agrees(got, want), (str(e), str(got))


def test_vector_field_apply_with_monomial_components_matches_sympy():
    # components of several atoms, one with exp, take the product route
    comps = ("2*x*u", "x*u*u_x", "-3*u^2*u_x*exp(x)")
    Y = JetVectorField(ODE, (parse(comps[0]),),
                       {(0, (k,)): parse(c) for k, c in enumerate(comps[1:])})
    comps_s = [sp.sympify(c.replace("^", "**"), locals={**SYMBOLS, **FUNCS}) for c in comps]
    for e, expr in cases("apply-monomials", CASES // 10):
        got = Y.apply(e)
        want = sum((c * sp.diff(expr, SYMBOLS[n]) for c, n in zip(comps_s, NAMES)),
                   sp.Integer(0))
        assert agrees(got, want), (str(e), str(got))


def test_scalar_differential_matches_sympy():
    keys = {
        "x": basis_key_dx(0),
        "u": basis_key_du(0, (0,)),
        "u_x": basis_key_du(0, (1,)),
    }
    for e, expr in cases("differential", CASES // 2):
        omega = scalar_differential(e, ODE)
        assert set(omega.coeffs) <= set(keys.values())
        for name, key in keys.items():
            got = omega.coefficient(key)
            assert agrees(got, sp.diff(expr, SYMBOLS[name])), (str(e), name, str(got))


def read_lines(lines):
    return [sp.sympify(line.replace("^", "**"), locals=SYMBOLS) for line in lines]


def standard_psi(xi, phi):
    """Psi_x and Psi_xx of the standard lift of ``xi d/dx + phi d/du``."""
    x, u, ux, uxx = (SYMBOLS[n] for n in ("x", "u", "u_x", "u_xx"))

    def D(f):
        return sp.diff(f, x) + ux * sp.diff(f, u) + uxx * sp.diff(f, ux)

    psi_x = D(phi) - ux * D(xi)
    return psi_x, D(psi_x) - uxx * D(xi)


LIFT = """
from jetsym.expr import to_string
from jetsym.jets import JetSpec
from jetsym.parsing import parse
from jetsym.prolong import PointVectorField, lift

spec = JetSpec(("x",), ("u",), 2)
for xi, phi in FIELDS:
    X = PointVectorField(spec, (parse(xi),), (parse(phi),))
    Y = lift(X, n=2)
    for k in (1, 2):
        print(to_string(Y.psi_at(0, (k,))))
"""


def lift_in_child(fields, timeout):
    """Psi_x and Psi_xx lines of each order-2 lift of ``(xi, phi)`` texts
    on (x; u), computed in a child process."""
    lines = run_child(f"FIELDS = {list(fields)!r}\n" + LIFT, timeout)
    assert len(lines) == 2 * len(fields)
    got = read_lines(lines)
    return [got[i:i + 2] for i in range(0, len(got), 2)]


def test_rational_standard_lift_matches_sympy_in_time():
    # the gcd's remainder sequence once let rational coefficients grow
    # without bound here, and this lift did not finish in 30 s
    ((got_x, got_xx),) = lift_in_child([("1/(1 + x)", "u/x^2")], timeout=20)
    x, u = SYMBOLS["x"], SYMBOLS["u"]
    psi_x, psi_xx = standard_psi(1 / (1 + x), u / x**2)
    assert sp.simplify(got_x - psi_x) == 0
    assert sp.simplify(got_xx - psi_xx) == 0


# Lifts whose gcds once ran for minutes: a gcd over every atom of its
# inputs, where only the shared atoms can take part, went through deep
# content recursions.  Each must now finish within 5 s.


def test_sum_denominator_in_two_variables_lifts_in_time():
    # over a minute before the gcd split off the atoms its inputs do not share
    ((got_x, got_xx),) = lift_in_child([("(2 - 2*x)/(3*u - 4 - x^2)", "0")], timeout=5)
    x, u = SYMBOLS["x"], SYMBOLS["u"]
    psi_x, psi_xx = standard_psi((2 - 2 * x) / (3 * u - 4 - x**2), sp.Integer(0))
    assert sp.cancel(got_x - psi_x) == 0
    assert sp.cancel(got_xx - psi_xx) == 0


def _rand_ratio_text(rng):
    """The printed text of a random ratio of polynomials in x and u."""
    while True:
        den = rand_poly(rng, ("x", "u"), allow_zero=False)
        if den != ZERO:
            return to_string(rand_poly(rng, ("x", "u"), allow_zero=False) / den)


def test_random_rational_lifts_finish_in_time():
    # such lifts ran past 10 s each before the gcd split
    rng = random.Random(f"{SEED}:lift-sweep")
    fields = [(_rand_ratio_text(rng), _rand_ratio_text(rng)) for _ in range(10)]
    results = lift_in_child(fields, timeout=5)
    # sympy's cancel can take a minute on ten such lifts, so they are
    # compared exactly at random rational points instead
    points = [{s: sp.Rational(rng.randint(-50, 50), rng.randint(1, 50))
               for s in SYMBOLS.values()} for _ in range(3)]
    for (xi, phi), got in zip(fields, results):
        xi_s, phi_s = (sp.sympify(t.replace("^", "**"), locals=SYMBOLS) for t in (xi, phi))
        for g, want in zip(got, standard_psi(xi_s, phi_s)):
            values = [(g.xreplace(pt), want.xreplace(pt)) for pt in points]
            defined = [(a, b) for a, b in values if b.is_finite]
            assert defined and all(a == b for a, b in defined), (xi, phi)


def test_high_negative_power_field_lifts_in_time():
    # 39 s for this field before the gcd split off the unshared atoms
    script = """
from jetsym.jets import JetSpec
from jetsym.parsing import parse
from jetsym.prolong import PointVectorField, lift

spec = JetSpec(("x", "t"), ("u",), 2)
X = PointVectorField(spec, (parse("1/(1 + t)"), parse("x^(-40)")),
                     (parse("u/x^2 - 3/2*u"),))
print(len(lift(X, n=2).psi))
"""
    # phi, and Psi on u_x, u_t and the three second derivatives
    assert run_child(script, timeout=5) == ["6"]


def test_golden_rational_problem_with_a_high_power_runs_in_time(tmp_path):
    # the rational golden problem with xi t = x/x^992 ran for over 120 s
    golden = Path(__file__).resolve().parent / "golden" / "rational.jsf"
    text = golden.read_text().replace("xi t = x/2", "xi t = x/x^992")
    assert "x^992" in text
    problem = tmp_path / "power.jsf"
    problem.write_text(text)
    script = f"""
import sys
from jetsym.cli import main
sys.exit(main(["run-file", {str(problem)!r}]))
"""
    # the tasks that must fail still fail, as in the golden report
    lines = run_child(script, timeout=5, returncode=1)
    assert lines[-1] == "7 task(s), 1 failure(s)"
