"""Printing, ordering and variable lookup of canonical values.

A canonical value is printed, ordered and searched for variables from
its (numerator, denominator) pair.  It prints as ``N``, or as ``(N)/(D)``
when its denominator is not 1, with the terms of ``N`` and ``D`` in
ascending order of their monomials.  On seeded random rational functions
(negative powers, fraction coefficients, nested exp/log/sin/cos,
denominators that are sums), on the results of derivatives and
substitutions, and on Hypothesis-drawn quotients of kernel polynomials,
the printed terms must come in that order, every text must parse back
to an equal value with an equal hash, and the variables found must be
the names the text shows and match a digest recorded while the suite
still checked them against the walk of each value's tree of nodes.  The
printed bytes of those values, and of the components of seeded standard,
mu and lambda lifts, must match digests recorded while the printer still
read each value's frozen pair.
"""

import hashlib
import random
import re
from fractions import Fraction

from helpers import rand_point_field, rand_unipotent_gauge
from hypothesis import given, settings
from hypothesis import strategies as st

from jetsym.backend import rat_make
from jetsym.errors import SymbolicDivisionError
from jetsym.expr import (
    _rf_of,
    cos,
    exp,
    expr_prod,
    expr_sum,
    free_variables,
    pdiff,
    rational,
    sin,
    substitute,
    to_string,
    variable,
)
from jetsym.gauge import GaugeFunction, darboux_derivative
from jetsym.jets import JetSpec
from jetsym.parsing import parse
from jetsym.prolong import PointVectorField, lambda_form, lift

SEED = 20261018
CASES = 300
NAMES = ("x", "u", "u_x")
FUNCS = ("exp", "log", "sin", "cos")


def _rand_text(rng, depth):
    if depth == 0 or rng.random() < 0.15:
        if rng.random() < 0.7:
            return rng.choice(NAMES)
        return rng.choice(("1", "2", "3/2", "-1", "-2/3", "5"))
    kind = rng.choice(("add", "sub", "mul", "div", "pow", "func", "neg"))
    if kind == "func":
        # arguments always hold a variable, so no kernel folds to a constant
        return f"{rng.choice(FUNCS)}({_rand_text(rng, depth - 1)} + {rng.choice(NAMES)})"
    if kind == "pow":
        return f"({_rand_text(rng, depth - 1)})^({rng.choice((-2, -1, 2, 3))})"
    if kind == "neg":
        return f"-({_rand_text(rng, depth - 1)})"
    a, b = _rand_text(rng, depth - 1), _rand_text(rng, depth - 1)
    op = {"add": "+", "sub": "-", "mul": "*", "div": "/"}[kind]
    return f"({a}) {op} ({b})"


def _values(salt, n=CASES):
    """Canonical values: parsed random text, and the derivatives and
    substitutions of some of them."""
    rng = random.Random(f"{SEED}:{salt}")
    out = []
    while len(out) < n:
        try:
            e = parse(_rand_text(rng, rng.randint(1, 4)))
            if rng.random() < 0.3:
                e = pdiff(e, rng.choice(NAMES))
            elif rng.random() < 0.2:
                e = substitute(e, {"u": parse(rng.choice(("1/(1 + x)", "-x/2", "exp(-x)")))})
        except SymbolicDivisionError:
            continue  # a zero denominator on the way
        out.append(e)
    return out


def _lifted():
    """The components Psi of seeded lifts, multiindex by multiindex:
    standard and mu lifts of random point fields on (x, t; u, v),
    each form the Darboux derivative of a random unipotent gauge, and
    lambda lifts of scalar ODE fields with kernels and a denominator."""
    rng = random.Random(f"{SEED}:lift")
    out = []
    system = JetSpec(("x", "t"), ("u", "v"), 3)
    for _ in range(3):
        X = rand_point_field(rng, system)
        mu = darboux_derivative(GaugeFunction(system, rand_unipotent_gauge(rng, system)))
        for Y in (lift(X), lift(X, mu)):
            out += [Y.psi_at(a, J) for J in system.multi_indices() for a in range(2)]
    ode = JetSpec(("x",), ("u",), 3)
    texts = ("exp(u)", "x*sin(u)", "u^2/(1 + x)", "-exp(x + u)/2", "cos(x)*u", "u - 1/3")
    for _ in range(3):
        X = PointVectorField(ode, [parse(rng.choice(texts))], [parse(rng.choice(texts))])
        Y = lift(X, lambda_form(X, parse(rng.choice(("u", "x", "sin(u)", "1/(1 + u)")))))
        out += [Y.psi_at(0, J) for J in ode.multi_indices()]
    return out


# sha256 of the variable lists, one per line, recorded from the pair code
# while the suite still checked it against the walk of each value's tree
# of nodes, which it matched
VARS_DIGEST = "3fda2729d624c5faa27f35ff0a36797a96618b822663602d7eb3a5d1ad210a04"
# sha256 of the printed texts, one per line, of ``_values("print")`` and
# of ``_lifted()``, recorded while the printer still read the frozen pair
PRINT_DIGEST = "bf279fac2923ac4d97dc827159ed51c5c84043af938c26d1f1db388829200c54"
LIFT_DIGEST = "a48d32e13493978a1b78ab782aa839551b1767bcebb1654fc7fee4329276a60a"


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _split_top(text, seps):
    """``text`` cut at each separator in ``seps`` that lies outside all
    parentheses, the separators kept at the start of the following part."""
    parts, depth, start, i = [], 0, 0, 0
    while i < len(text):
        ch = text[i]
        depth += (ch == "(") - (ch == ")")
        sep = next((s for s in seps if text.startswith(s, i)), None) if depth == 0 else None
        if sep is not None and i > start:
            parts.append(text[start:i])
            start = i
            i += len(sep)
        else:
            i += 1
    parts.append(text[start:])
    return parts


ONE_POLY = {(): rat_make(1, 1)}
ZERO_TERM = ((), rat_make(0, 1))  # the one item "0" is printed for


def _printed_terms(text):
    """The terms of a printed polynomial, each as its one (monomial,
    coefficient) item."""
    items = []
    for part in _split_top(text, (" + ", " - ")):
        num, den = _rf_of(parse(part.replace(" ", "").removeprefix("+")))
        assert den == ONE_POLY and len(num) <= 1, part
        items.extend(num.items() or [ZERO_TERM])
    return items


def _check_printed_form(e):
    """``e`` prints as N or (N)/(D), terms in ascending monomial order,
    and its text parses back to an equal value with an equal hash."""
    text = to_string(e)
    num, den = _rf_of(e)
    if den == ONE_POLY:
        want = [(m, num[m]) for m in sorted(num)] or [ZERO_TERM]
        assert _printed_terms(text) == want, text
    else:
        n_text, d_text = _split_top(text, (")/(",))
        assert n_text.startswith("(") and d_text.startswith(")/(") and text.endswith(")")
        assert _printed_terms(n_text[1:]) == [(m, num[m]) for m in sorted(num)], text
        assert _printed_terms(d_text[3:-1]) == [(m, den[m]) for m in sorted(den)], text
    assert not re.search(r"(?<![\d/])1\*", text) and "-(" not in text, text
    again = parse(text)
    assert again == e and hash(again) == hash(e), text


def test_terms_print_in_monomial_order():
    for e in _values("print"):
        _check_printed_form(e)


def test_free_variables_of_pair_match_tree_walk():
    values = _values("vars")
    assert digest(",".join(sorted(free_variables(e))) for e in values) == VARS_DIGEST
    for e in values:
        shown = set(re.findall(r"[A-Za-z][A-Za-z0-9_]*", to_string(e))) - set(FUNCS)
        assert free_variables(e) == shown


def test_printed_bytes_match_the_recorded_digests():
    assert digest(to_string(e) for e in _values("print")) == PRINT_DIGEST
    assert digest(to_string(e) for e in _lifted()) == LIFT_DIGEST


def test_printed_values_parse_back():
    for e in _values("equal", 60):
        again = parse(to_string(e))
        assert again == e and hash(again) == hash(e)


KERNELS = (exp, sin, cos)
VARIABLES = [variable(n) for n in NAMES]
COEFFICIENTS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def kernel_polys(draw, depth=1):
    """A sum of a few terms: a fraction coefficient times variables and
    kernels of smaller such sums, or of such a sum over a sum."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [rational(draw(COEFFICIENTS))]
        factors += draw(st.lists(st.sampled_from(VARIABLES), max_size=2))
        if depth and draw(st.booleans()):
            arg = draw(kernel_polys(depth - 1))
            v = draw(st.sampled_from(VARIABLES))
            arg = arg / (v + 1) if draw(st.booleans()) else arg + v
            factors.append(draw(st.sampled_from(KERNELS))(arg))
        terms.append(expr_prod(factors))
    return expr_sum(terms)


@settings(max_examples=80, deadline=None)
@given(kernel_polys(), kernel_polys(), st.sampled_from(VARIABLES))
def test_printed_quotients_keep_order_and_parse_back(n, d, v):
    # d + v is a sum denominator unless it cancels to a constant
    if d + v != rational(0):
        _check_printed_form(n / (d + v))
    _check_printed_form(n)


def test_printed_forms():
    assert to_string(parse("1/(1 + x)")) == "(1)/(1 + x)"
    assert to_string(parse("x^-2")) == "(1)/(x^2)"
    assert to_string(parse("-u/x^2")) == "(-u)/(x^2)"
    assert to_string(parse("-x/(1 + x)")) == "(-x)/(1 + x)"
    assert to_string(parse("-3/2*u + 1/2")) == "1/2 - 3/2*u"
    assert to_string(parse("exp(x/(1 + u))")) == "exp((x)/(1 + u))"
    assert to_string(parse("x*u + u^2 + x + 1 + u")) == "1 + u + u*x + u^2 + x"
    # exponents order as numbers, not as text
    assert to_string(parse("u^10 + u^2*x")) == "u^2*x + u^10"
    assert to_string(parse("u^10*x + u^9*x^12 - u^10")) == "u^9*x^12 - u^10 + u^10*x"
    # a coefficient of -1 prints as a sign, others in front of the factors
    assert to_string(parse("-u")) == "-u"
    assert to_string(parse("-x/2")) == "-1/2*x"
    assert to_string(parse("x - 3/4")) == "-3/4 + x"
    assert to_string(parse("(2/3 - u)/(x - 1/5)")) == "(2/3 - u)/(-1/5 + x)"


def test_value_built_in_two_orders_prints_and_hashes_alike():
    x, u = variable("x"), variable("u")
    a = (exp(x) * sin(u) + u / (1 + x)) * (cos(x * u) - x)
    b = cos(u * x) * u / (x + 1) - x * u / (x + 1) + (cos(x * u) - x) * sin(u) * exp(x)
    assert a == b and hash(a) == hash(b)
    assert to_string(a) == to_string(b)
    assert free_variables(a) == {"x", "u"}


def test_same_name_kernels_keep_a_fixed_order():
    x = variable("x")
    assert to_string(exp(2 * x) + exp(x)) == to_string(exp(x) + exp(2 * x)) == "exp(x) + exp(2*x)"
    assert to_string(sin(2 * x) * sin(x)) == to_string(sin(x) * sin(2 * x)) == "sin(x)*sin(2*x)"
    assert to_string(exp(x) * sin(2 * x) + exp(2 * x) * sin(x)) == "exp(x)*sin(2*x) + exp(2*x)*sin(x)"


def test_free_variables_of_raw_trees_keep_tree_semantics():
    # no value keeps an unreduced tree any more: x - x built from nodes is
    # already the canonical zero, so it names nothing, while names inside
    # kernels are still found
    x = variable("x")
    assert free_variables(x - x) == set()
    assert free_variables(parse("sin(u_x)*exp(x)/(1 + log(u))")) == {"u_x", "x", "u"}
