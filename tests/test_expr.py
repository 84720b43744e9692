"""Expression kernel tests: grammar, canonical form, calculus, zero testing.

Property tests draw small test-side trees (nested tuples) and build
their values with the operators of the library; the trees' own float
evaluator is the independent oracle for the values.
"""

import math
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from jetsym.errors import (
    DomainError,
    NonIntegerExponentError,
    ParseError,
    SubstitutionError,
    SymbolicDivisionError,
    UnboundVariableError,
    UnknownFunctionError,
)
from jetsym import backend
from jetsym.expr import (
    ONE,
    Check,
    Derivation,
    Verdict,
    as_expr,
    constant_value,
    cos,
    eval_expr,
    exp,
    expr_prod,
    expr_sum,
    log,
    pdiff,
    rational,
    sin,
    substitute,
    to_string,
    variable,
    zero_verdict,
)
from jetsym.expr import Expr, _fix_exp, _pmul, _radd_products, _rf_of
from jetsym.jets import JetSpec, total_derivative
from jetsym.parsing import MAX_NESTING, parse

from helpers import assert_canonical, atom_key

# test-side trees: ("const", c), ("var", name), ("add", a, b, ...),
# ("mul", a, b, ...), ("pow", a, k), ("func", name, a)
KERNELS = {"exp": exp, "log": log, "sin": sin, "cos": cos}
FLOAT_KERNELS = {"exp": math.exp, "log": math.log, "sin": math.sin, "cos": math.cos}


def build(tree):
    """The canonical value of a test-side tree, built with operators."""
    op, *args = tree
    if op == "const":
        return rational(args[0])
    if op == "var":
        return variable(args[0])
    if op == "add":
        return reduce(operator.add, (build(a) for a in args))
    if op == "mul":
        return reduce(operator.mul, (build(a) for a in args))
    if op == "pow":
        return build(args[0]) ** args[1]
    return KERNELS[args[0]](build(args[1]))


def value(tree, point):
    """Float value of a test-side tree at ``point``, walked as written."""
    op, *args = tree
    if op == "const":
        return float(args[0])
    if op == "var":
        return float(point[args[0]])
    if op == "add":
        return math.fsum(value(a, point) for a in args)
    if op == "mul":
        return math.prod(value(a, point) for a in args)
    if op == "pow":
        return value(args[0], point) ** args[1]
    return FLOAT_KERNELS[args[0]](value(args[1], point))


def numeric_zero_oracle(tree, names, points=5, seed=7, tol=1e-9):
    """Independent check that a test-side tree evaluates to zero at
    random points."""
    rng = random.Random(seed)
    done = 0
    while done < points:
        pt = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in names}
        try:
            v = value(tree, pt)
        except (ValueError, ZeroDivisionError):
            continue
        if abs(v) > tol:
            return False
        done += 1
    return True


# --- parse ------------------------------------------------------------------

def test_parse_additive_identity():
    assert parse("x + 0") == parse("x")
    assert to_string(parse("x + 0")) == "x"


def test_parse_lowest_terms():
    e = parse("2/4 * u")
    assert e == rational(Fraction(1, 2)) * variable("u")


def test_parse_square_cancels():
    ux = ("var", "u_x")
    tree = ("add", ("pow", ux, 2), ("mul", ("const", -1), ux, ux))
    # the oracle comes first: the tree as written vanishes numerically
    assert numeric_zero_oracle(tree, ["u_x"])
    assert parse("u_x^2 - (u_x)*(u_x)") == rational(0)
    assert build(tree) == rational(0)


def test_parse_rational_literal_rule():
    # no spaces: one rational token; spaced: division (same value here)
    assert parse("1/2") == rational(Fraction(1, 2))
    assert parse("1 / 2") == rational(Fraction(1, 2))
    # the literal binds before '^' can see it
    with pytest.raises(NonIntegerExponentError):
        parse("x^2/3")
    assert parse("x^2 / 3") == parse("(x^2)/3")


def test_parse_precedence_and_associativity():
    assert parse("1 + 2*x") == parse("(2*x) + 1")
    assert parse("x^2^3") == parse("x^8")
    assert parse("-x^2") == parse("-(x^2)")
    assert parse("2*x - x") == parse("x")
    assert parse("x^-1") == parse("1/x")


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x + @")
    assert err.value.column == 5
    with pytest.raises(UnknownFunctionError):
        parse("tan(x)")
    with pytest.raises(NonIntegerExponentError):
        parse("x^u")
    with pytest.raises(ParseError):
        parse("x + ")
    with pytest.raises(ParseError):
        parse("(x + 1")


def nested(template, levels, inner="u"):
    text = inner
    for _ in range(levels):
        text = template.format(text)
    return text


@pytest.mark.parametrize(
    "template, inner",
    [("({})", "u"), ("exp({})", "u"), ("-{}", "u"), ("1^{}", "1"), ("sin(x + {})", "u")],
)
def test_parse_nesting_limit(template, inner):
    assert parse(nested(template, MAX_NESTING, inner)) is not None
    with pytest.raises(ParseError) as err:
        parse("\n" + nested(template, MAX_NESTING + 1, inner))
    assert "nested more than" in str(err.value)
    assert err.value.line == 2


def test_parse_print_parse_idempotent():
    for text in [
        "x + 0",
        "2/4 * u",
        "(x+1)^2",
        "(u+1)/(x-1)",
        "u/x",
        "-x - 2",
        "exp(u)*sin(x) - 1/3",
        "x*u_x^2 - u_xx/(1+x^2)",
        "1/exp(u)",
        "x^-2",
    ]:
        once = parse(text)
        again = parse(to_string(once))
        assert again == once
        assert to_string(again) == to_string(once)


# --- canonical form ---------------------------------------------------------

def test_gcd_cancellation():
    assert parse("(x^2-1)/(x-1)") == parse("x+1")
    assert parse("(x*u)/(x)") == parse("u")
    assert parse("(x^2+2*x+1)/(x+1)") == parse("x+1")


def test_denominator_is_monic_and_unique():
    a = parse("(x+1)/(2*x-2)")
    b = parse("(1/2)*(x+1)/(x-1)")
    assert a == b


def test_exp_products_merge():
    assert parse("exp(u)*exp(-u)") == rational(1)
    assert parse("exp(u)^2") == parse("exp(2*u)")
    assert parse("1/exp(u)") == parse("exp(-u)")
    assert parse("exp(x)*exp(x)*u") == parse("u*exp(2*x)")
    assert parse("exp(u+x)/exp(x)") == parse("exp(u)")


def test_sum_over_an_exp_denominator_reduces_to_one():
    # exp merging is no ring map, so n1/d1 + n2 still needs its gcd: the
    # sum's numerator becomes 1 + exp(x), a multiple of the denominator,
    # only once exp(x)*exp(x) has merged into exp(2*x)
    a = parse("(1 - exp(2*x))/(1 + exp(x))")
    b = exp(variable("x"))
    for total in (a + b, b + a):
        assert total == ONE
        assert to_string(total) == "1"


def test_no_trig_identities_applied():
    e = parse("sin(u)^2 + cos(u)^2")
    assert e != rational(1)


def test_constant_folds():
    assert parse("exp(0)") == rational(1)
    assert parse("log(1)") == rational(0)
    assert parse("sin(0)") == rational(0)
    assert parse("cos(0)") == rational(1)


@pytest.mark.parametrize("text, expected", [
    ("3/2", Fraction(3, 2)),
    ("x - x", 0),
    ("exp(0)", 1),
    ("exp(1)", None),
    ("x", None),
    ("1/(1+x)", None),
])
def test_constant_value(text, expected):
    value = constant_value(parse(text))
    if expected is None:
        assert value is None
    else:
        assert isinstance(value, Fraction) and value == expected


def test_a_variable_name_has_one_atom_object():
    # equal atoms are one object wherever they are made, so sorting and
    # looking up monomials compares them by identity first
    spec = JetSpec(("x",), ("u",), 2)
    atom = atom_key(variable("u_x"))
    assert atom_key(parse("2*u_x")) is atom
    assert atom_key(spec.jet_var(0, (1,))) is atom
    assert atom_key(total_derivative(variable("u"), 0, spec)) is atom


def test_division_by_zero_expression():
    with pytest.raises(SymbolicDivisionError):
        parse("1/(x-x)")


# --- pdiff ------------------------------------------------------------------

def test_pdiff_power_rule():
    assert pdiff(parse("x^2"), "x") == parse("2*x")


def test_pdiff_exp():
    assert pdiff(parse("exp(u)"), "u") == parse("exp(u)")


def test_pdiff_jet_variables_are_independent_symbols():
    assert pdiff(parse("x*u_x"), "u_x") == parse("x")
    assert pdiff(parse("x*u_x"), "u") == rational(0)


def test_pdiff_chain_and_quotient():
    assert pdiff(parse("sin(x^2)"), "x") == parse("2*x*cos(x^2)")
    assert pdiff(parse("log(x)"), "x") == parse("1/x")
    assert pdiff(parse("1/x"), "x") == parse("-1/x^2")
    assert pdiff(parse("cos(x)"), "x") == parse("-sin(x)")


# --- derivations ------------------------------------------------------------

def test_a_derivation_can_be_applied_again():
    images = {"x": rational(1), "u": parse("u_x"), "u_x": parse("2*x")}.get
    D = Derivation(images)
    for text in ("x*u*u_x", "u^2/(1 + x)", "sin(u)*exp(u_x)", "x*u*u_x"):
        e = parse(text)
        assert D(e) == Derivation(images)(e) == D(e)
    # only the variables' images outlive a call
    assert {key[1] for key in D.images} == {"x", "u", "u_x"}


# --- substitute -------------------------------------------------------------

def test_substitute_solves_equation_residual():
    f = parse("x*u + 1")
    assert substitute(parse("u_xx") - f, {"u_xx": f}) == rational(0)


def test_substitute_empty_map_is_identity():
    e = parse("x+u")
    assert substitute(e, {}) == e


def test_substitute_hand_expansion():
    assert substitute(parse("u^2"), {"u": parse("x+1")}) == parse("x^2+2*x+1")


def test_substitute_is_simultaneous_on_disjoint_maps():
    e = substitute(parse("x + u"), {"x": parse("t"), "u": parse("3")})
    assert e == parse("t + 3")


def test_substitute_rejects_cycles():
    with pytest.raises(SubstitutionError):
        substitute(parse("u"), {"u": parse("u+1")})
    with pytest.raises(SubstitutionError):
        substitute(parse("x+y"), {"x": parse("y"), "y": parse("x")})
    # a bound variable in any replacement is rejected, even without a loop
    with pytest.raises(SubstitutionError):
        substitute(parse("x + u"), {"x": parse("u"), "u": parse("3")})


# --- zero testing -----------------------------------------------------------

def test_zero_verdict_pythagorean_is_probably():
    u = ("var", "u")
    tree = ("add", ("pow", ("func", "sin", u), 2), ("pow", ("func", "cos", u), 2),
            ("const", -1))
    e = parse("sin(u)^2 + cos(u)^2 - 1")
    assert build(tree) == e
    assert numeric_zero_oracle(tree, ["u"])
    assert zero_verdict(e) is Verdict.PROBABLY


def test_zero_verdict_exact_cases():
    assert zero_verdict(parse("x - x")) is Verdict.TRUE
    assert zero_verdict(parse("x + 1")) is Verdict.FALSE


def test_zero_verdict_nonzero_transcendental():
    assert zero_verdict(parse("exp(u) - u")) is Verdict.FALSE


def test_zero_verdict_deterministic_under_seed():
    e = parse("sin(u)^2 + cos(u)^2 - 1")
    assert zero_verdict(e, seed=5) == zero_verdict(e, seed=5)


PYTHAGORAS = parse("sin(x)^2 + cos(x)^2 - 1")


@st.composite
def _int_polys(draw, max_degree=12):
    """Polynomial in x and u with small integer coefficients."""
    terms = draw(st.lists(
        st.tuples(st.integers(-9, 9), st.integers(0, max_degree),
                  st.integers(0, max_degree)),
        min_size=1, max_size=6,
    ))
    return expr_sum(c * variable("x") ** a * variable("u") ** b for c, a, b in terms)


@settings(max_examples=60, deadline=None)
@given(_int_polys(), st.sampled_from(["1", "exp(u)", "exp(x*u)/(1+u^2)"]),
       st.integers(0, 2**32))
@example(parse("x^10"), "1", 0)
@example(parse("1"), "exp(u)", 0)
@example(parse("(x^2+u^2+1)^6"), "1", 0)
def test_polynomial_times_identity_is_never_false(p, factor, seed):
    # true identities whose terms are far above 1e-9 in absolute size
    e = p * parse(factor) * PYTHAGORAS
    assert zero_verdict(e, seed=seed) is not Verdict.FALSE


_INDEPENDENT_KERNELS = ("exp(x)", "cos(x)", "sin(u)")


@st.composite
def _nonzero_kernel_exprs(draw):
    """Nonzero rational functions of x, u, exp(x), cos(x) and sin(u).  The
    three kernels are algebraically independent over Q(x, u), so a
    canonical form that is not syntactically zero is a nonzero function."""
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        factors = [rational(draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))),
                   variable("x") ** draw(st.integers(0, 6)),
                   variable("u") ** draw(st.integers(0, 6))]
        for k in _INDEPENDENT_KERNELS:
            factors.append(parse(k) ** draw(st.integers(0, 2)))
        terms.append(expr_prod(factors))
    e = expr_sum(terms)
    if draw(st.booleans()):
        e = e / parse("1 + u^2")
    assume(e != parse("0"))
    return e


# Bound: at most one PROBABLY among 20 nonzero expressions (5%); on
# 2000 seeded draws of the same family none came back PROBABLY.
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(_nonzero_kernel_exprs(), st.integers(0, 2**32)),
                min_size=20, max_size=20))
def test_nonzero_kernel_expressions_are_rarely_probably(batch):
    verdicts = [zero_verdict(e, seed=seed) for e, seed in batch]
    assert Verdict.TRUE not in verdicts
    assert verdicts.count(Verdict.PROBABLY) <= 1


def test_small_value_over_large_terms_is_false():
    # value 1, terms of about 1e4 and more at every sample: FALSE needs a
    # margin near 2^24 eps of the terms; at 2^40 every seed reads PROBABLY
    e = parse("(x^2+u^2+100)^2*(sin(x)^2+cos(x)^2-1) + 1")
    assert [zero_verdict(e, seed=s) for s in range(40)] == [Verdict.FALSE] * 40


def test_check_keeps_every_residual_and_lists_the_probable_keys():
    # a Pythagorean residual reads PROBABLY; once zero testing proves that
    # identity, use another PROBABLY residual
    residuals = {"a": rational(0), "b": PYTHAGORAS, "c": parse("x - x")}
    probable = Check(residuals)
    assert probable.verdict is Verdict.PROBABLY and not probable
    assert probable.residuals == residuals
    assert list(probable.residuals) == ["a", "b", "c"]
    assert probable.probable == ("b",)
    failing = Check({"b": PYTHAGORAS, "d": parse("x + 1")})
    assert failing.verdict is Verdict.FALSE
    assert failing.probable == ("b",)


def test_a_true_check_has_no_probable_key():
    for residuals in ({}, {"a": rational(0), "b": parse("exp(2*x) - exp(x)^2")}):
        res = Check(residuals)
        assert res.verdict is Verdict.TRUE and res
        assert res.probable == ()


def test_log_domain_triggers_resampling():
    # log(x^2+1) is always defined; log(x) needs positive samples
    assert zero_verdict(parse("log(x) - log(x)")) is Verdict.TRUE
    assert zero_verdict(parse("log(x^2+1) - log(x^2+1) + sin(x)")) is not Verdict.TRUE


# --- eval -------------------------------------------------------------------

def test_eval_examples():
    assert eval_expr(parse("x*u"), {"x": 2, "u": 3}) == 6.0
    assert eval_expr(parse("exp(0)"), {}) == 1.0
    assert eval_expr(parse("x^2"), {"x": Fraction(1, 2)}) == 0.25


def test_eval_errors():
    with pytest.raises(UnboundVariableError):
        eval_expr(parse("x+u"), {"x": 1})
    with pytest.raises(DomainError):
        eval_expr(parse("log(x)"), {"x": -1})
    with pytest.raises(DomainError):
        eval_expr(parse("1/x"), {"x": 0})


# --- properties -------------------------------------------------------------

_names = st.sampled_from(["x", "t", "u", "u_x"])
_leaves = st.one_of(
    st.tuples(st.just("const"), st.integers(min_value=-4, max_value=4)),
    st.tuples(st.just("var"), _names),
)


def _expr_trees(allow_kernels=True):
    def extend(children):
        opts = [
            st.tuples(st.just("add"), children, children),
            st.tuples(st.just("mul"), children, children),
            st.tuples(st.just("pow"), children, st.integers(min_value=0, max_value=3)),
        ]
        if allow_kernels:
            opts.append(st.tuples(
                st.just("func"), st.sampled_from(["exp", "sin", "cos"]), children
            ))
        return st.one_of(opts)

    return st.recursive(_leaves, extend, max_leaves=10)


@settings(max_examples=60, deadline=None)
@given(_expr_trees())
def test_normalize_idempotent(tree):
    e = build(tree)
    assert as_expr(e) is e
    # rebuild through the printer, so nothing cached on the value is reused
    assert parse(to_string(e)) == e


@settings(max_examples=60, deadline=None)
@given(_expr_trees())
def test_normalize_preserves_value(tree):
    rng = random.Random(11)
    e = build(tree)
    done = 0
    tries = 0
    while done < 3 and tries < 60:
        tries += 1
        pt = {n: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for n in ("x", "t", "u", "u_x")}
        try:
            a = value(tree, pt)
            b = eval_expr(e, pt)
        except (DomainError, OverflowError):
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            continue
        assert abs(a - b) <= 1e-6 * max(1.0, abs(a), abs(b))
        done += 1


@settings(max_examples=60, deadline=None)
@given(_expr_trees(), _expr_trees(), st.sampled_from(["x", "u", "u_x"]))
def test_leibniz_rule(a, b, v):
    a, b = build(a), build(b)
    assert pdiff(a * b, v) == pdiff(a, v) * b + a * pdiff(b, v)


@settings(max_examples=60, deadline=None)
@given(_expr_trees(), _expr_trees(), st.sampled_from(["x", "u", "u_x"]))
def test_diff_linearity(a, b, v):
    a, b = build(a), build(b)
    assert pdiff(a + b, v) == pdiff(a, v) + pdiff(b, v)


@settings(max_examples=50, deadline=None)
@given(_expr_trees(allow_kernels=False), _expr_trees(allow_kernels=False))
def test_substitute_commutes_with_addition(a, b):
    a, b = build(a), build(b)
    m = {"u": parse("x+1"), "u_x": parse("t^2")}
    assert substitute(a + b, m) == substitute(a, m) + substitute(b, m)


@settings(max_examples=50, deadline=None)
@given(_expr_trees(allow_kernels=False))
def test_polynomial_zero_test_is_exact(tree):
    v = zero_verdict(build(tree))
    assert v in (Verdict.TRUE, Verdict.FALSE)


def test_rational_zero_test_is_exact():
    e = parse("(x^2-1)/(x-1) - x - 1")
    assert zero_verdict(e) is Verdict.TRUE
    e2 = parse("1/(x+1) + 1/(x-1) - 2*x/(x^2-1)")
    assert zero_verdict(e2) is Verdict.TRUE


# exp-normal polynomials: each monomial holds variables and at most one
# exp atom, to the first power; their products may need merging
_VAR_ATOMS = [atom_key(variable(n)) for n in ("x", "u")]
_EXP_ATOMS = [atom_key(parse(t)) for t in
              ("exp(x)", "exp(-x)", "exp(2*x)", "exp(u)", "exp(x + u)", "exp(x - u)")]


@st.composite
def _exp_normal_polys(draw):
    p = {}
    for _ in range(draw(st.integers(0, 4))):
        mono = [(a, draw(st.integers(1, 2))) for a in _VAR_ATOMS if draw(st.booleans())]
        if draw(st.booleans()):
            mono.append((draw(st.sampled_from(_EXP_ATOMS)), 1))
        p[tuple(sorted(mono))] = (draw(st.integers(1, 5)) * draw(st.sampled_from([1, -1])), 1)
    return p


@settings(max_examples=150, deadline=None)
@given(_exp_normal_polys(), _exp_normal_polys())
# x * (2*exp(x) - 1): no monomial of the product holds two exp atoms
@example({((_VAR_ATOMS[0], 1),): (1, 1)}, {((_EXP_ATOMS[0], 1),): (2, 1), (): (-1, 1)})
def test_pmul_equals_the_merged_product(p, q):
    assert _pmul(p, q) == _fix_exp(backend.poly_mul(p, q))


@st.composite
def _pair_operands(draw, plain):
    """A value for ``_radd_products``: a polynomial with exp atoms or
    without, of integer or rational coefficients; unless ``plain``, it
    may be a quotient, some by a denominator that holds an exp atom."""
    p = draw(_exp_normal_polys())
    if draw(st.booleans()):
        p = {m: c for m, c in p.items() if all(a not in _EXP_ATOMS for a, _e in m)}
    e = Expr((p, {(): (1, 1)})) * rational(1, draw(st.sampled_from([1, 1, 2, 3])))
    if plain:
        return e
    return e / parse(draw(st.sampled_from(["1", "1 + u^2", "x - 2", "1 + exp(x)"])))


@st.composite
def _sums_of_products(draw):
    """``r`` and the ``(s, x, y)`` of a sum: all of them polynomials in
    half of the draws, so both routes of ``_radd_products`` are taken."""
    plain = draw(st.booleans())
    operand = _pair_operands(plain)
    terms = st.lists(st.tuples(st.sampled_from([1, -1]), operand, operand), max_size=4)
    return draw(operand), draw(terms)


@settings(max_examples=150, deadline=None)
@given(_sums_of_products())
# two products, every denominator 1, exp atoms on one side of each only
@example((parse("u*exp(x) + x"),
          [(1, parse("x*exp(u)"), parse("u^2 - 1")), (-1, parse("u"), parse("x*u + exp(x)"))]))
# exp atoms on both sides of a product: exp(x)*exp(-x) merges to 1
@example((parse("x"), [(1, parse("u"), parse("x")), (-1, parse("exp(x)"), parse("exp(-x)"))]))
def test_radd_products_equals_the_fold(case):
    r, terms = case
    want = r
    for s, x, y in terms:
        want = want + x * y if s > 0 else want - x * y
    got = _radd_products(_rf_of(r), [(s, _rf_of(x), _rf_of(y)) for s, x, y in terms])
    assert got == _rf_of(want)
    assert_canonical(Expr(got))
