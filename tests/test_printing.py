"""Printing, ordering and variable lookup of canonical values.

A canonical value is printed, ordered and searched for variables from
its (numerator, denominator) pair.  On seeded random rational functions
(negative powers, fraction coefficients, nested exp/log/sin/cos,
denominators that are sums), and on the results of derivatives and
substitutions, the printed texts, the sort keys and the variables found
must match digests recorded while the suite still checked them against
the walk of each value's tree of nodes; every text must parse back to
its value, and the variables found must be the names the text shows.
"""

import hashlib
import random
import re

from jetsym.errors import SymbolicDivisionError
from jetsym.expr import free_variables, normalize, pdiff, substitute, to_string, variable
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


# sha256 of the texts, the key reprs and the variable lists, one per
# line, recorded from the pair code while the suite still checked it
# against the walk of each value's tree of nodes, which it matched
PRINT_DIGEST = "53949bb7fdfcf3394e4add0684bb9e3ff519ae43e490072ae1e534199ab31e2b"
KEY_DIGEST = "910ecc4a11736e7702897bcce425fc2647b97037f56dadb68b9e436ae945c2c1"
VARS_DIGEST = "3fda2729d624c5faa27f35ff0a36797a96618b822663602d7eb3a5d1ad210a04"


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_pair_printer_matches_tree_walk():
    texts = [to_string(e) for e in _values("print")]
    assert digest(texts) == PRINT_DIGEST


def test_pair_sort_key_matches_tree_walk():
    keys = [repr(e.sort_key()) for e in _values("key")]
    assert digest(keys) == KEY_DIGEST


def test_free_variables_of_pair_match_tree_walk():
    values = _values("vars")
    assert digest(",".join(sorted(free_variables(e))) for e in values) == VARS_DIGEST
    for e in values:
        shown = set(re.findall(r"[A-Za-z][A-Za-z0-9_]*", to_string(e))) - set(FUNCS)
        assert free_variables(e) == shown


def test_printed_values_parse_back():
    for e in _values("equal", 60):
        again = parse(to_string(e))
        assert again == e and hash(again) == hash(e)


def test_printing_quirks_are_kept():
    assert to_string(parse("1/(1 + x)")) == "1*(1 + x)^(-1)"
    assert to_string(parse("-u/x^2")) == "-(u*x^(-2))"
    assert to_string(parse("-u/x")) == "-(u*x^(-1))"
    assert to_string(parse("-1/x")) == "-x^(-1)"
    assert to_string(parse("-3/2*u + 1/2")) == "1/2 - 3/2*u"
    assert to_string(parse("exp(x/(1 + u))")) == "exp(x*(1 + u)^(-1))"


def test_free_variables_of_raw_trees_keep_tree_semantics():
    # no value keeps an unreduced tree any more: x - x built from nodes is
    # already the canonical zero, so it names nothing, before and after
    # normalize, while names inside kernels are still found
    x = variable("x")
    assert free_variables(x - x) == set()
    assert free_variables(normalize(x - x)) == set()
    assert free_variables(parse("sin(u_x)*exp(x)/(1 + log(u))")) == {"u_x", "x", "u"}
