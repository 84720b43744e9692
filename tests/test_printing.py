"""Canonical values against their materialized trees.

A canonical value is printed, ordered and searched for variables from
its (numerator, denominator) pair, without building nodes.  On seeded
random rational functions (negative powers, fraction coefficients,
nested exp/log/sin/cos, denominators that are sums), and on the results
of derivatives and substitutions, each of these must agree with the
tree walk of a raw copy of the value's materialized tree.
"""

import random

from jetsym.errors import SymbolicDivisionError
from jetsym.expr import (
    Add,
    Const,
    Func,
    Mul,
    Pow,
    Var,
    free_variables,
    normalize,
    pdiff,
    substitute,
    to_string,
)
from jetsym.parsing import parse

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


def raw_copy(e):
    """The materialized tree of ``e`` rebuilt from plain nodes, which are
    printed and keyed by walking them."""
    cls = e.__class__
    if cls is Const:
        return Const(e.value)
    if cls is Var:
        return Var(e.name)
    if cls is Pow:
        return Pow(raw_copy(e.base), e.exponent)
    if cls is Func:
        return Func(e.name, raw_copy(e.arg))
    if cls is Mul:
        return Mul(tuple(raw_copy(f) for f in e.factors))
    return Add(tuple(raw_copy(t) for t in e.terms))


def test_pair_printer_matches_tree_walk():
    for e in _values("print"):
        assert to_string(e) == to_string(raw_copy(e))


def test_pair_sort_key_matches_tree_walk():
    for e in _values("key"):
        key = e.sort_key()  # before anything reads the children
        assert key == raw_copy(e).sort_key()


def test_free_variables_of_pair_match_tree_walk():
    for e in _values("vars"):
        assert free_variables(e) == free_variables(raw_copy(e))


def test_canonical_values_equal_their_trees():
    for e in _values("equal", 60):
        raw = raw_copy(e)
        assert e == raw and hash(e) == hash(raw)
        assert parse(to_string(e)) == e


def test_printing_quirks_are_kept():
    assert to_string(parse("1/(1 + x)")) == "1*(1 + x)^(-1)"
    assert to_string(parse("-u/x^2")) == "-(u*x^(-2))"
    assert to_string(parse("-u/x")) == "-(u*x^(-1))"
    assert to_string(parse("-1/x")) == "-x^(-1)"
    assert to_string(parse("-3/2*u + 1/2")) == "1/2 - 3/2*u"
    assert to_string(parse("exp(x/(1 + u))")) == "exp(x*(1 + u)^(-1))"


def test_free_variables_of_raw_trees_keep_tree_semantics():
    x = Var("x")
    raw = Add((x, Mul((Const(-1), x))))
    assert free_variables(raw) == {"x"}
    assert free_variables(normalize(raw)) == set()
    assert free_variables(parse("sin(u_x)*exp(x)/(1 + log(u))")) == {"u_x", "x", "u"}
